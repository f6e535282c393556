package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// runSteady is the steadiness mode: n rounds, each running every named
// workload (all when names is empty) once with the round's seed,
// interleaved so that drift of the host reaches all workloads alike. Every run is a fresh process, as in a
// single-run invocation. It prints each run's result line, then each
// end-to-end metric's quartiles over the rounds and its spread, the
// distance between the quartiles as a share of the median: the figure
// each bound in BENCHMARK.json is judged against.
func runSteady(e *env, n int, names string) error {
	var wls []workload
	for _, wl := range workloads {
		if names == "" || slices.Contains(strings.Split(names, ","), wl.name) {
			wls = append(wls, wl)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Println(hostFingerprint())
	values := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		seed := e.seed + int64(i)
		for _, wl := range wls {
			cmd := exec.Command(self, "-bellamy", e.bellamy, "-work", e.work, "--workload", wl.name,
				"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(int(e.seconds/time.Second)), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			last := lines[len(lines)-1]
			var r struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(last, &r); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", wl.name, seed, err)
			}
			fmt.Printf("%s seed %d: %s\n", wl.name, seed, last)
			if !r.Correct || r.Failed > 0 {
				return fmt.Errorf("%s seed %d: correct=%v, %d of %d failed", wl.name, seed, r.Correct, r.Failed, r.Attempted)
			}
			if values[wl.name] == nil {
				values[wl.name] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				values[wl.name][name] = append(values[wl.name][name], m.Value)
			}
		}
	}
	fmt.Printf("%-20s %-14s %12s %12s %12s %8s\n", "workload", "metric", "q1", "median", "q3", "spread")
	for _, wl := range wls {
		for _, name := range sortedNames(e2eUnits) {
			v := values[wl.name][name]
			q1, q2, q3 := quartiles(v)
			fmt.Printf("%-20s %-14s %12.5g %12.5g %12.5g %8.3f\n", wl.name, name, q1, q2, q3, math.Abs(q3-q1)/q2)
		}
	}
	return nil
}
