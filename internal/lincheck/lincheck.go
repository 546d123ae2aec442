// Package lincheck implements a linearizability checker for small
// concurrent histories (Wing & Gong's algorithm with Lowe's
// memoization). Tests record each operation's invocation and response
// times plus its observed output, and the checker searches for a total
// order that (a) respects real-time precedence and (b) replays correctly
// against a sequential model — exactly the two conditions of the paper's
// correctness argument (Section III-C).
//
// The search is exponential in the worst case; histories are capped at
// 64 operations (a bitmask bound), which is ample for protocol tests.
package lincheck

import (
	"fmt"
	"sort"
	"strconv"
)

// Operation is one invocation/response pair observed by a client.
type Operation struct {
	// ClientID identifies the issuing client (diagnostics only).
	ClientID int
	// Input describes the operation for Model.Step.
	Input any
	// Output is the response the client observed.
	Output any
	// Call and Return are the invocation and response instants. An
	// operation A precedes B in real time iff A.Return < B.Call.
	Call   int64
	Return int64
}

// Model is a sequential specification.
type Model struct {
	// Init returns the initial state.
	Init func() any
	// Step applies an input, returning the successor state and the
	// output a sequential execution would produce.
	Step func(state any, input any) (newState any, output any)
	// Hash fingerprints a state for memoization. Optional; the default
	// uses fmt.Sprintf("%v"), which is correct for value-printable
	// states (maps print sorted).
	Hash func(state any) string
	// EqualOutput compares observed and model outputs. Optional; the
	// default is ==.
	EqualOutput func(observed, model any) bool
}

// hashState applies the configured or default state fingerprint.
func (m *Model) hashState(state any) string {
	if m.Hash != nil {
		return m.Hash(state)
	}
	return fmt.Sprintf("%v", state)
}

// equalOutput applies the configured or default output comparison.
func (m *Model) equalOutput(observed, model any) bool {
	if m.EqualOutput != nil {
		return m.EqualOutput(observed, model)
	}
	return observed == model
}

// Check reports whether the history is linearizable with respect to the
// model. It returns an error for malformed histories (more than 64
// operations, or Return < Call).
func Check(m Model, history []Operation) (bool, error) {
	n := len(history)
	if n == 0 {
		return true, nil
	}
	if n > 64 {
		return false, fmt.Errorf("lincheck: history of %d operations exceeds the 64-op bound", n)
	}
	ops := make([]Operation, n)
	copy(ops, history)
	for i, op := range ops {
		if op.Return < op.Call {
			return false, fmt.Errorf("lincheck: operation %d returns before it is called", i)
		}
	}
	// Deterministic exploration order.
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Call != ops[j].Call {
			return ops[i].Call < ops[j].Call
		}
		return ops[i].Return < ops[j].Return
	})

	type frame struct {
		done  uint64 // bitmask of linearized operations
		state any
	}
	seen := make(map[string]bool)
	var key []byte // dfs's scratch for the memo key: used before it recurses
	var dfs func(f frame) bool
	full := uint64(1)<<n - 1
	dfs = func(f frame) bool {
		if f.done == full {
			return true
		}
		key = strconv.AppendUint(key[:0], f.done, 16)
		key = append(key, '|')
		key = append(key, m.hashState(f.state)...)
		if seen[string(key)] {
			return false
		}
		seen[string(key)] = true

		// The next linearized operation must not violate real time: it
		// cannot be one whose invocation happens after some pending
		// operation's response.
		minReturn := int64(1<<63 - 1)
		for i := 0; i < n; i++ {
			if f.done&(1<<i) == 0 && ops[i].Return < minReturn {
				minReturn = ops[i].Return
			}
		}
		for i := 0; i < n; i++ {
			if f.done&(1<<i) != 0 {
				continue
			}
			if ops[i].Call > minReturn {
				continue // a pending op returned before this one started
			}
			next, out := m.Step(f.state, ops[i].Input)
			if !m.equalOutput(ops[i].Output, out) {
				continue
			}
			if dfs(frame{done: f.done | 1<<i, state: next}) {
				return true
			}
		}
		return false
	}
	return dfs(frame{done: 0, state: m.Init()}), nil
}

// RegisterOp is a convenience input type for read/write/rmw registers
// keyed by string.
type RegisterOp struct {
	// Kind is "read", "write", or "add" (read-modify-write: returns the
	// post-add value).
	Kind string
	Key  string
	Arg  int64
}

// RegisterModel returns a Model of a map of int64 registers supporting
// RegisterOp inputs. Reads return the current value; writes return nil;
// adds return the incremented value.
func RegisterModel() Model {
	type state = map[string]int64
	clone := func(s state) state {
		c := make(state, len(s))
		for k, v := range s {
			c[k] = v
		}
		return c
	}
	return Model{
		Init: func() any { return state{} },
		Step: func(st any, input any) (any, any) {
			s := st.(state)
			op := input.(RegisterOp)
			switch op.Kind {
			case "read":
				return s, s[op.Key]
			case "write":
				c := clone(s)
				c[op.Key] = op.Arg
				return c, nil
			case "add":
				c := clone(s)
				c[op.Key] += op.Arg
				return c, c[op.Key]
			default:
				return s, nil
			}
		},
		Hash: func(st any) string {
			s := st.(state)
			keys := make([]string, 0, len(s))
			for k := range s {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			out := ""
			for _, k := range keys {
				out += fmt.Sprintf("%s=%d;", k, s[k])
			}
			return out
		},
	}
}
