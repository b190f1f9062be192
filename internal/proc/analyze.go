package proc

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Program is one instantiated procedure invocation: its operations in
// program order plus the program dependency graph (§3).
type Program struct {
	Spec *Spec
	Ops  []*Op

	// Independent reports whether the invocation's read/write set is
	// determined by its arguments alone: no operation's accessing key
	// depends on another operation's output and no operation scans a
	// key range whose extent depends on database state. Independent
	// transactions take the merged validate+write fast path and can
	// never abort under healing (§4.6).
	Independent bool

	// The symbol table: slot i < nargs is argument i (argSlot names
	// it), slot nargs+j is names[j] — first the nout variables the
	// operations write, in name order (the output order), then names
	// an operation declares that nothing binds, which stay unset.
	// slots indexes names.
	names       []string
	slots       map[string]int32
	nargs, nout int
}

// analyze builds the symbol table for a call with nargs arguments,
// resolves every operation's declared names to slots, and infers key
// and value dependencies from variable flow. Variable definitions
// follow program order: an operation reading variable v depends on the
// latest preceding operation that writes v (static single-assignment
// is not required; procedures in practice assign each variable once).
func (p *Program) analyze(nargs int) {
	writes, decls := 0, 0
	for _, op := range p.Ops {
		writes += len(op.Writes)
		decls += len(op.KeyReads) + len(op.ValReads) + len(op.Writes)
	}
	p.names = make([]string, 0, writes)
	for _, op := range p.Ops {
		p.names = append(p.names, op.Writes...)
	}
	slices.Sort(p.names)
	p.names = slices.Compact(p.names)
	p.nargs, p.nout = nargs, len(p.names)
	p.slots = make(map[string]int32, p.nout)
	for i, n := range p.names {
		p.slots[n] = int32(nargs + i)
	}
	lastDef := make([]*Op, nargs+p.nout)
	vars := make([]opVar, 0, decls)
	declare := func(names []string, write bool) int {
		for _, n := range names {
			i := p.slot(n)
			if i < 0 {
				i = nargs + len(p.names)
				p.slots[n] = int32(i)
				p.names = append(p.names, n)
				lastDef = append(lastDef, nil)
			}
			vars = append(vars, opVar{name: n, slot: int32(i), write: write})
		}
		return len(vars)
	}

	p.Independent = true
	for _, op := range p.Ops {
		lo := len(vars)
		k, v := declare(op.KeyReads, false), declare(op.ValReads, false)
		declare(op.Writes, true)
		op.vars = vars[lo:len(vars):len(vars)]
		// De-duplicate edges per (parent, kind).
		keyParents := make(map[*Op]bool)
		valParents := make(map[*Op]bool)
		for _, d := range vars[lo:k] {
			if def := lastDef[d.slot]; def != nil && !keyParents[def] {
				keyParents[def] = true
				def.keyChildren = append(def.keyChildren, op)
				op.parents++
				p.Independent = false
			}
		}
		for _, d := range vars[k:v] {
			if def := lastDef[d.slot]; def != nil && !valParents[def] && !keyParents[def] {
				valParents[def] = true
				def.valChildren = append(def.valChildren, op)
				op.parents++
			}
		}
		for _, d := range vars[v:] {
			lastDef[d.slot] = op
		}
	}
}

// slot returns the slot of the variable named name, or -1.
func (p *Program) slot(name string) int {
	if i, ok := p.slots[name]; ok {
		return int(i)
	}
	return argSlot(p.Spec.Params, p.nargs, name)
}

// Op returns the operation with the given bookmark.
func (p *Program) Op(id int) *Op { return p.Ops[id] }

// Graph renders the program dependency graph in a stable textual form
// mirroring the paper's Figure 3: one line per edge, "K" for key
// dependencies and "V" for value dependencies.
func (p *Program) Graph() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:\n", p.Spec.Name)
	for _, op := range p.Ops {
		edges := make([]string, 0, len(op.keyChildren)+len(op.valChildren))
		for _, c := range op.keyChildren {
			edges = append(edges, fmt.Sprintf("K->%d", c.ID))
		}
		for _, c := range op.valChildren {
			edges = append(edges, fmt.Sprintf("V->%d", c.ID))
		}
		sort.Strings(edges)
		fmt.Fprintf(&sb, "  %d %s: %s\n", op.ID, op.Name, strings.Join(edges, " "))
	}
	return sb.String()
}

// Validate checks structural well-formedness: forward-only variable
// flow (guaranteed by construction), op IDs equal to positions, a body
// on every operation, every declared write set disjoint from the
// parameters and the arguments. It allocates only to refuse, so every
// expansion pays it.
func (p *Program) Validate() error {
	for i, op := range p.Ops {
		if op.ID != i {
			return fmt.Errorf("%w: proc %s: op %q has id %d at position %d", ErrMalformed, p.Spec.Name, op.Name, op.ID, i)
		}
		if op.Body == nil {
			return fmt.Errorf("%w: proc %s: op %d %q has no body", ErrMalformed, p.Spec.Name, op.ID, op.Name)
		}
		for _, w := range op.Writes {
			if slices.Contains(p.Spec.Params, w) || argSlot(p.Spec.Params, p.nargs, w) >= 0 {
				return fmt.Errorf("%w: proc %s: op %d writes parameter %q", ErrMalformed, p.Spec.Name, op.ID, w)
			}
		}
	}
	return nil
}

// DOT renders the program dependency graph in Graphviz format: solid
// edges are key dependencies, dashed edges are value dependencies —
// the visual convention of the paper's Figures 3 and 15.
func (p *Program) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n", p.Spec.Name)
	for _, op := range p.Ops {
		fmt.Fprintf(&sb, "  op%d [label=\"%d %s\"];\n", op.ID, op.ID, op.Name)
	}
	for _, op := range p.Ops {
		for _, c := range op.keyChildren {
			fmt.Fprintf(&sb, "  op%d -> op%d [style=solid];\n", op.ID, c.ID)
		}
		for _, c := range op.valChildren {
			fmt.Fprintf(&sb, "  op%d -> op%d [style=dashed];\n", op.ID, c.ID)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
