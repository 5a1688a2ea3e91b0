package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildSchedd compiles cmd/schedd from the tree into dir.
func buildSchedd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "schedd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/schedd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building schedd: %v\n%s", err, out)
	}
	return bin
}

// benchmarkNames reads the metric names BENCHMARK.json promises.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name+" "+m.Unit)
	}
	return endToEnd, perLayer
}

// children lists the live processes whose parent is this test.
func children(t *testing.T) []int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	self := strconv.Itoa(os.Getpid())
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		s := string(data)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) > 1 && f[1] == self && f[0] != "Z" {
			pids = append(pids, pid)
		}
	}
	return pids
}

// assertClean fails if a child process or a run directory survived.
func assertClean(t *testing.T, workdir string) {
	t.Helper()
	if pids := children(t); len(pids) > 0 {
		t.Errorf("child processes still running: %v", pids)
	}
	runs, _ := filepath.Glob(filepath.Join(workdir, "run-*"))
	if len(runs) > 0 {
		t.Errorf("run directories left behind: %v", runs)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	bin := buildSchedd(t, t.TempDir())
	endToEnd, perLayer := benchmarkNames(t)
	for _, name := range []string{"read-mix", "commit-ring", "solver-heavy"} {
		for _, trace := range []bool{false, true} {
			workdir := t.TempDir()
			o := options{workload: name, seed: 3, seconds: 1, trace: trace, schedd: bin, workdir: workdir, smoke: true}
			res, err := run(context.Background(), o, os.Stderr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, nu := range want {
				n, unit, _ := strings.Cut(nu, " ")
				m, ok := res.Metrics[n]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s: got %+v, want unit %s", name, trace, n, m, unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
				}
			}
			assertClean(t, workdir)
		}
	}
}

// TestTeardownOnFailure cancels a run mid-window and checks that it
// still stops every schedd and removes its directories.
func TestTeardownOnFailure(t *testing.T) {
	bin := buildSchedd(t, t.TempDir())
	workdir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	o := options{workload: "commit-ring", seed: 1, seconds: 30, schedd: bin, workdir: workdir, smoke: true}
	if _, err := run(ctx, o, os.Stderr); err == nil {
		t.Fatal("cancelled run reported success")
	}
	assertClean(t, workdir)

	o.schedd = filepath.Join(t.TempDir(), "missing")
	if _, err := run(context.Background(), o, os.Stderr); err == nil {
		t.Fatal("run without a schedd binary reported success")
	}
	assertClean(t, workdir)
}
