package model

import (
	"fmt"
	"strconv"
	"strings"
)

// Pattern is a parameterized transaction template in the paper's notation,
// e.g. the Experiment-1 pattern
//
//	Xr(F1:1) -> Xr(F2:5) -> w(F1:0.2) -> w(F2:1)
//
// Each step is [X]r or w, a symbolic file name, and a cost in objects. An
// optional leading X on a read step requests an exclusive lock for it (as the
// first two steps of Experiment 1 do); plain r takes S and w always takes X.
// Symbolic names are bound to concrete files at instantiation time.
type Pattern struct {
	steps []PatternStep
}

// PatternStep is one templated step.
type PatternStep struct {
	// Sym is the symbolic file name ("F1", "B", ...).
	Sym string
	// Write marks a w step.
	Write bool
	// LockMode is the lock the instantiated step will request.
	LockMode Mode
	// Cost is the step's I/O demand in objects at DD=1.
	Cost float64
}

// ParsePattern parses the mini-language. Steps are separated by "->";
// whitespace is insignificant.
func ParsePattern(src string) (*Pattern, error) {
	var p Pattern
	parts := strings.Split(src, "->")
	if strings.TrimSpace(src) == "" {
		return nil, fmt.Errorf("pattern: empty input")
	}
	for i, raw := range parts {
		st, err := parseStep(strings.TrimSpace(raw))
		if err != nil {
			return nil, fmt.Errorf("pattern: step %d %q: %w", i+1, strings.TrimSpace(raw), err)
		}
		p.steps = append(p.steps, st)
	}
	return &p, nil
}

// MustParsePattern is ParsePattern that panics on error; for tests and
// package-level pattern constants.
func MustParsePattern(src string) *Pattern {
	p, err := ParsePattern(src)
	if err != nil {
		panic(err)
	}
	return p
}

func parseStep(s string) (PatternStep, error) {
	var st PatternStep
	if s == "" {
		return st, fmt.Errorf("empty step")
	}
	rest := s
	st.LockMode = S
	if rest[0] == 'X' {
		st.LockMode = X
		rest = rest[1:]
	}
	if rest == "" {
		return st, fmt.Errorf("missing operation")
	}
	switch rest[0] {
	case 'r':
		st.Write = false
	case 'w':
		st.Write = true
		st.LockMode = X
	default:
		return st, fmt.Errorf("operation must be r or w, got %q", rest[0])
	}
	rest = rest[1:]
	if len(rest) < 2 || rest[0] != '(' || rest[len(rest)-1] != ')' {
		return st, fmt.Errorf("expected (NAME:COST)")
	}
	body := rest[1 : len(rest)-1]
	colon := strings.LastIndexByte(body, ':')
	if colon < 0 {
		return st, fmt.Errorf("expected NAME:COST inside parentheses")
	}
	st.Sym = strings.TrimSpace(body[:colon])
	if st.Sym == "" {
		return st, fmt.Errorf("empty file name")
	}
	cost, err := strconv.ParseFloat(strings.TrimSpace(body[colon+1:]), 64)
	if err != nil {
		return st, fmt.Errorf("bad cost: %w", err)
	}
	if cost < 0 {
		return st, fmt.Errorf("negative cost %g", cost)
	}
	st.Cost = cost
	return st, nil
}

// Steps returns the templated steps (a copy).
func (p *Pattern) Steps() []PatternStep {
	cp := make([]PatternStep, len(p.steps))
	copy(cp, p.steps)
	return cp
}

// String renders the pattern back in the mini-language.
func (p *Pattern) String() string {
	parts := make([]string, len(p.steps))
	for i, st := range p.steps {
		op := "r"
		if st.Write {
			op = "w"
		}
		prefix := ""
		if st.LockMode == X && !st.Write {
			prefix = "X"
		}
		parts[i] = fmt.Sprintf("%s%s(%s:%g)", prefix, op, st.Sym, st.Cost)
	}
	return strings.Join(parts, "->")
}

// Instantiate binds every symbolic name to a concrete file and returns the
// resulting steps, with declared costs equal to the actual costs. It errors
// when a symbol has no binding.
func (p *Pattern) Instantiate(binding map[string]FileID) ([]Step, error) {
	steps := make([]Step, len(p.steps))
	for i, st := range p.steps {
		f, ok := binding[st.Sym]
		if !ok {
			return nil, fmt.Errorf("pattern: no binding for symbol %q", st.Sym)
		}
		steps[i] = Step{
			File:         f,
			Write:        st.Write,
			LockMode:     st.LockMode,
			Cost:         st.Cost,
			DeclaredCost: st.Cost,
		}
	}
	return steps, nil
}
