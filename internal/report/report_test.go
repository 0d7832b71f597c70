package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "Table 2: Top subdomain labels",
		Headers: []string{"SDL", "Count"},
	}
	tbl.AddRow("www", "61.1M")
	tbl.AddRow("mail", "14.4M")
	out := tbl.Render()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "www") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns align: "SDL" padded to width of "mail".
	if !strings.HasPrefix(lines[1], "SDL ") {
		t.Fatalf("header align: %q", lines[1])
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline")
	}
	s := Sparkline([]float64{0, 1, 2, 4})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline runes = %q", s)
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Fatalf("sparkline shape = %q", s)
	}
	// All-zero input stays at the floor without dividing by zero.
	z := []rune(Sparkline([]float64{0, 0}))
	if z[0] != '▁' || z[1] != '▁' {
		t.Fatalf("zero sparkline = %q", string(z))
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{
		Title:  "Fig 1a",
		XLabel: "day",
		X:      []string{"2017-01-01", "2017-01-02"},
		Series: []Series{{Name: "Let's Encrypt", Points: []float64{1, 10}}},
	}
	out := f.Render()
	if !strings.Contains(out, "Fig 1a") || !strings.Contains(out, "Let's Encrypt") {
		t.Fatalf("render:\n%s", out)
	}
	if !strings.Contains(out, "last=10") {
		t.Fatalf("annotations:\n%s", out)
	}
}

func TestHeatmapRender(t *testing.T) {
	vals := map[string]map[string]float64{
		"LE":       {"Nimbus": 100, "Pilot": 50},
		"DigiCert": {"DigiCert Log": 10},
	}
	h := &Heatmap{
		Title: "Fig 1c",
		Rows:  []string{"LE", "DigiCert"},
		Cols:  []string{"Nimbus", "Pilot", "DigiCert Log"},
		Value: func(r, c string) float64 { return vals[r][c] },
	}
	out := h.Render()
	if !strings.Contains(out, "Fig 1c") || !strings.Contains(out, "col  0: Nimbus") {
		t.Fatalf("render:\n%s", out)
	}
	// The LE row must show its peak cell as the densest rune '@'.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "LE ") && !strings.Contains(line, "@") {
			t.Fatalf("LE row missing peak: %q", line)
		}
	}
}

func TestHumanize(t *testing.T) {
	cases := map[float64]string{
		8.6e9:  "8.6G",
		5.7e6:  "5.7M",
		303000: "303.0k",
		42:     "42",
	}
	for in, want := range cases {
		if got := Humanize(in); got != want {
			t.Errorf("Humanize(%v) = %q, want %q", in, got, want)
		}
	}
}
