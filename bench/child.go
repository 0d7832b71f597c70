package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cleanups is the process-wide list of things that must not outlive the
// benchmark: ctlogd children and run directories. Every exit path runs
// it — normal return, a failed run, SIGINT/SIGTERM (the handler below),
// and a panic on any goroutine started through guard.
var cleanups struct {
	mu  sync.Mutex
	fns map[int]func()
	seq int
}

// onExit registers fn and returns a function that runs it now and
// forgets it.
func onExit(fn func()) (done func()) {
	cleanups.mu.Lock()
	defer cleanups.mu.Unlock()
	if cleanups.fns == nil {
		cleanups.fns = make(map[int]func())
	}
	cleanups.seq++
	id := cleanups.seq
	cleanups.fns[id] = fn
	return func() {
		cleanups.mu.Lock()
		_, live := cleanups.fns[id]
		delete(cleanups.fns, id)
		cleanups.mu.Unlock()
		if live {
			fn()
		}
	}
}

func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// guard is deferred first on every goroutine the benchmark starts: a
// panic there would otherwise kill the process with children running.
func guard() {
	if r := recover(); r != nil {
		runCleanups()
		panic(r)
	}
}

// cleanupOnSignal kills children and removes run directories when the
// benchmark itself is interrupted.
func cleanupOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		runCleanups()
		os.Exit(130)
	}()
}

// buildCtlogd compiles cmd/ctlogd into the benchmark's output directory.
// The path is stable, so every build after the first in a checkout is
// the toolchain's up-to-date check.
func buildCtlogd(root string) (string, error) {
	bin := filepath.Join(root, "bench", "out", "bin", "ctlogd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ctlogd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ctlogd: %v\n%s", err, out)
	}
	return bin, nil
}

// tailBuffer keeps the last few KiB written to it: enough of ctlogd's
// stderr to explain a failed start without holding a long run's log.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4096

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailBytes:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// child is one running ctlogd.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *tailBuffer
	done   chan struct{} // closed once the process has been waited for
	// kill SIGKILLs ctlogd's process group and waits for it: the crash
	// the recovery check restarts from, and the end of every run.
	kill func()
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before ctlogd binds it, a window nothing else on a benchmark
// host races for.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startCtlogd runs ctlogd on dataDir with its shipped defaults (durable,
// fsync per submission, 1 s sequencer, tile span 1024) in its own
// process group, and returns once get-sth answers 200. pageCache ≤ 0
// leaves the default cache size.
func startCtlogd(bin, dataDir string, pageCache int64) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-data-dir", dataDir}
	if pageCache > 0 {
		args = append(args, "-page-cache", strconv.FormatInt(pageCache, 10))
	}
	c := &child{cmd: exec.Command(bin, args...), base: "http://" + addr, stderr: &tailBuffer{}}
	c.cmd.Stderr = c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	// One goroutine owns Wait; kill signals the group and waits on done.
	c.done = make(chan struct{})
	go func() {
		defer guard()
		_ = c.cmd.Wait()
		close(c.done)
	}()
	pid := c.cmd.Process.Pid
	c.kill = onExit(func() {
		// Negative pid: the whole process group.
		_ = syscall.Kill(-pid, syscall.SIGKILL)
		<-c.done
	})
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(c.base + "/ct/v1/get-sth")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return c, nil
			}
		}
		select {
		case <-c.done:
			c.kill()
			return nil, fmt.Errorf("ctlogd exited before answering get-sth; stderr tail:\n%s", c.stderr)
		default:
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("ctlogd never answered get-sth on %s; stderr tail:\n%s", c.base, c.stderr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// clockTick is USER_HZ, which Linux fixes at 100 on every architecture.
const clockTick = 10 * time.Millisecond

// cpuTime is ctlogd's user+system CPU so far, from /proc/<pid>/stat.
func (c *child) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("bench: malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc stat")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: bad cpu fields in /proc stat")
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procField reads one "Key: value" number from a /proc/<pid> file.
func (c *child) procField(file, key string) (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", c.cmd.Process.Pid, file))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseUint(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("bench: no %s in /proc/%d/%s", key, c.cmd.Process.Pid, file)
}

// usage is the server-side cost counters sampled around a window.
type usage struct {
	cpu      time.Duration
	syscalls uint64 // read- and write-family calls (syscr+syscw)
	peakRSS  uint64 // VmHWM, bytes
}

func (c *child) usage() (usage, error) {
	cpu, err := c.cpuTime()
	if err != nil {
		return usage{}, err
	}
	r, err := c.procField("io", "syscr")
	if err != nil {
		return usage{}, err
	}
	w, err := c.procField("io", "syscw")
	if err != nil {
		return usage{}, err
	}
	hwm, err := c.procField("status", "VmHWM")
	if err != nil {
		return usage{}, err
	}
	return usage{
		cpu:      cpu,
		syscalls: r + w,
		peakRSS:  hwm * 1024,
	}, nil
}

// cpuSampler reads ctlogd's CPU time once a second while a window runs,
// so cost per op can be taken slice by slice like the latencies.
type cpuSampler struct {
	quit chan struct{}
	done chan []time.Duration
}

func sampleCPU(c *child) *cpuSampler {
	s := &cpuSampler{quit: make(chan struct{}), done: make(chan []time.Duration, 1)}
	go func() {
		defer guard()
		var slices []time.Duration
		last, _ := c.cpuTime()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				s.done <- slices
				return
			case <-tick.C:
				// A failed read means ctlogd is gone, and the run fails
				// on that by itself.
				if now, err := c.cpuTime(); err == nil {
					slices = append(slices, now-last)
					last = now
				}
			}
		}
	}()
	return s
}

// stop ends the sampling and returns ctlogd's CPU time in each whole
// second since sampleCPU.
func (s *cpuSampler) stop() []time.Duration {
	close(s.quit)
	return <-s.done
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			// ctlogd renames temp files into place while we walk.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total, err
}
