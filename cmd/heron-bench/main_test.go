package main

import (
	"flag"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestCommandFlags builds every subcommand's flag set, so a flag name
// registered twice panics here rather than when someone runs that
// subcommand, and pins each subcommand's flag names: none added or lost.
func TestCommandFlags(t *testing.T) {
	want := map[string][]string{
		"fig4":      {"clients", "json", "metrics", "trace", "wh", "window"},
		"fig5":      {"json", "metrics", "trace", "wh", "window"},
		"fig6":      {"json", "metrics", "profile", "requests", "slowest", "trace", "workload"},
		"fig7":      {"json", "metrics", "requests", "trace", "wh"},
		"fig8":      {"full", "json", "metrics", "runs", "trace"},
		"table1":    {"json", "metrics", "trace", "window"},
		"ablation":  {"json", "metrics", "trace"},
		"workers":   {"json", "metrics", "trace", "wh", "window"},
		"fanout":    {"json", "metrics", "sizes", "slot", "targets", "trace"},
		"chaos":     {"faults", "flightdir", "json", "metrics", "schedules", "seed", "trace"},
		"reconfig":  {"json", "metrics", "runs", "scenario", "seed", "trace"},
		"recovery":  {"json", "keys", "metrics", "preset", "seed", "seeds", "trace", "valbytes"},
		"rebalance": {"json", "metrics", "scenario", "seed", "trace"},
		"lease": {"clients", "json", "keys", "metrics", "partitions", "profile", "readpct",
			"replicas", "seed", "slowest", "trace", "window"},
		"openloop": {"clients", "flightdir", "groups", "heat", "json", "metrics", "multi",
			"payload", "profile", "pumps", "rate", "replicas", "seed", "slowest", "trace",
			"warmup", "window", "zipf"},
		"trace": {"clients", "json", "metrics", "requests", "seed", "trace", "wh", "workers"},
	}
	if len(commands) != len(want) {
		t.Errorf("%d commands, want %d", len(commands), len(want))
	}
	listed := strings.FieldsFunc(usage(), func(r rune) bool { return strings.ContainsRune("{|}", r) })
	seen := map[string]bool{}
	var profiled []string
	for i := range commands {
		c := &commands[i]
		if seen[c.name] {
			t.Errorf("command %q listed twice", c.name)
		}
		seen[c.name] = true
		if !slices.Contains(listed, c.name) {
			t.Errorf("usage does not list %q: %s", c.name, usage())
		}
		fs, _, _ := c.flagSet()
		var names []string
		fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
		if !slices.Equal(names, want[c.name]) {
			t.Errorf("%s flags = %v, want %v", c.name, names, want[c.name])
		}
		if c.profile {
			profiled = append(profiled, c.name)
		}
	}
	if want := []string{"fig6", "lease", "openloop"}; !slices.Equal(profiled, want) {
		t.Errorf("commands taking -profile/-slowest = %v, want %v", profiled, want)
	}
}

// TestReadmeFlags checks every flag of every `go run ./cmd/heron-bench
// <sub> ...` line in README.md against that subcommand's flag set, so a
// flag removal cannot leave a documented invocation behind. Text after
// `#` is a comment; `all` takes the figures' flags and is skipped.
func TestReadmeFlags(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "go run ./cmd/heron-bench "
	checked := 0
	for i, line := range strings.Split(string(readme), "\n") {
		line, _, _ = strings.Cut(line, "#")
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), prefix)
		if !ok {
			continue
		}
		args := strings.Fields(rest)
		if len(args) == 0 || args[0] == "all" {
			continue
		}
		c := lookup(args[0])
		if c == nil {
			t.Errorf("README.md:%d: unknown subcommand %q", i+1, args[0])
			continue
		}
		fs, _, _ := c.flagSet()
		for _, a := range args[1:] {
			if !strings.HasPrefix(a, "-") {
				continue
			}
			name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
			if fs.Lookup(name) == nil {
				t.Errorf("README.md:%d: %s has no flag -%s", i+1, c.name, name)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no heron-bench flags found in README.md")
	}
	t.Logf("%d README flags checked", checked)
}
