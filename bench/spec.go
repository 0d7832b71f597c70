package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// metricSpec is one metric row of BENCHMARK.json. Bound is the share of
// the parent's median an end-to-end metric may worsen by; per-layer
// metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec mirrors BENCHMARK.json, the one place metric names, units
// and bounds are written down: results are printed by walking these
// lists, so a metric the program forgets to measure is an error and one
// the file does not name is never printed.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot walks up from the working directory to the module root, so
// `go run ./bench` (cwd = root) and `go test ./bench` (cwd = bench/)
// resolve the same paths.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no go.mod above the working directory")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// result is what one run reports. metrics holds exactly the values for
// one of the spec's metric lists; info holds everything else worth
// reading (per-class latencies, sample counts, diagnostics) and is
// printed but never gated.
type result struct {
	workload  string
	attempted int64
	failed    int64
	metrics   map[string]float64
	info      []infoLine
}

type infoLine struct {
	name  string
	value float64
	unit  string
}

func (r *result) addInfo(name string, value float64, unit string) {
	r.info = append(r.info, infoLine{name, value, unit})
}

// infoValue returns the info row with this name, or 0.
func (r *result) infoValue(name string) float64 {
	for _, l := range r.info {
		if l.name == name {
			return l.value
		}
	}
	return 0
}

// check reports a mismatch between the measured metrics and the list
// the spec names for this kind of run.
func (r *result) check(list []metricSpec) error {
	for _, m := range list {
		if _, ok := r.metrics[m.Name]; !ok {
			return fmt.Errorf("bench: metric %s named in BENCHMARK.json was not measured", m.Name)
		}
	}
	if len(r.metrics) != len(list) {
		return fmt.Errorf("bench: %d metrics measured, BENCHMARK.json names %d", len(r.metrics), len(list))
	}
	return nil
}

// print writes the human-readable rows and then, as the last line, the
// one JSON object the driver contract asks for.
func (r *result) print(w io.Writer, list []metricSpec) error {
	if err := r.check(list); err != nil {
		return err
	}
	for _, l := range r.info {
		fmt.Fprintf(w, "info   %-8s %-42s %14.4f %s\n", r.workload, l.name, l.value, l.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, make(map[string]value, len(list))}
	for _, m := range list {
		v := r.metrics[m.Name]
		fmt.Fprintf(w, "metric %-8s %-42s %14.4f %s\n", r.workload, m.Name, v, m.Unit)
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
