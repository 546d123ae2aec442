package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
)

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and bounds are declared. The program emits metrics by
// name and refuses to run to completion if what it emits and what the
// file declares differ, so the two cannot drift apart.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkNames verifies that vals holds exactly the declared metrics, each
// a finite number under a well-formed name.
func (s *benchSpec) checkNames(vals map[string]float64, decl []metricSpec) error {
	for _, m := range decl {
		v, ok := vals[m.Name]
		switch {
		case !metricName.MatchString(m.Name):
			return fmt.Errorf("metric name %q is malformed", m.Name)
		case !ok:
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
	}
	if len(vals) != len(decl) {
		declared := make(map[string]bool, len(decl))
		for _, m := range decl {
			declared[m.Name] = true
		}
		for name := range vals {
			if !declared[name] {
				return fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
			}
		}
	}
	return nil
}
