package main

import (
	"flag"
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
		"openloop": {"arrival", "clients", "flightdir", "groups", "heat", "json", "metrics", "mix",
			"multi", "payload", "profile", "pumps", "rate", "replicas", "seed", "shape", "slowest",
			"trace", "warmup", "window", "zipf"},
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
