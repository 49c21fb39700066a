package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the spread report reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(data, &bf)
}

// spread runs the untraced benchmark runs times per workload, each with
// its own seed (o.seed, o.seed+1, ...), and prints every end-to-end
// metric's median and quartiles. A metric whose spread — the distance
// between the quartiles as a share of the median — exceeds its bound in
// BENCHMARK.json is flagged, as is a bound the spread leaves less than a
// threefold margin to. It returns false when any metric is flagged or a
// run is incorrect.
func spread(ctx context.Context, o options, runs int, bench string, workloads []string, w io.Writer) (bool, error) {
	bf, err := readBenchmarkFile(bench)
	if err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok := true
	for _, wl := range workloads {
		values := map[string][]float64{}
		for i := 0; i < runs; i++ {
			seed := o.seed + int64(i)
			cmd := exec.CommandContext(ctx, self, "--workload", wl, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0", "--workdir", o.workdir)
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return false, fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			res, err := lastResult(out.String())
			if err != nil {
				return false, fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			if !res.Correct || res.Failed != 0 {
				ok = false
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Fprintf(w, "%s: %d runs, seeds %d-%d\n", wl, runs, o.seed, o.seed+int64(runs)-1)
		fmt.Fprintf(w, "  %-22s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range bf.EndToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			sp := share(q3-q1, q2)
			flag := ""
			switch {
			case sp > m.Bound:
				flag = "WIDER THAN BOUND"
				ok = false
			case sp > m.Bound/3:
				flag = "under 3x margin"
			}
			fmt.Fprintf(w, "  %-22s %12.4f %12.4f %12.4f %8.4f %6.3f %s\n", m.Name, q1, q2, q3, sp, m.Bound, flag)
		}
	}
	return ok, nil
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(out string) (result, error) {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
