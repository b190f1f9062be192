package ana_test

import (
	"go/ast"
	"go/parser"
	"slices"
	"strings"
	"testing"

	"thedb/internal/analysis/ana"
)

// flagme reports every use of an identifier named "flagme".
var flagme = &ana.Analyzer{
	Name: "flagme",
	Doc:  "test analyzer",
	Run: func(pass *ana.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "flagme" {
					pass.Reportf(id.Pos(), "found flagme")
				}
				return true
			})
		}
		return nil
	},
}

func checkSource(t *testing.T, src string) *ana.Package {
	t.Helper()
	chk := ana.NewChecker()
	f, err := parser.ParseFile(chk.Fset, "fixture.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := chk.Check("example.com/fixture", "", []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func TestNolintSuppression(t *testing.T) {
	pkg := checkSource(t, `package fixture

var flagme = 1

var other = flagme //thedb:nolint:flagme trailing suppression

//thedb:nolint preceding suppression of every analyzer
var again = flagme

var unsuppressed = flagme //thedb:nolint:differentpass wrong analyzer name
`)
	diags, err := ana.Run([]*ana.Package{pkg}, []*ana.Analyzer{flagme})
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, d := range diags {
		lines = append(lines, d.Pos.Line)
	}
	// The declaration (line 3) and the wrongly-annotated use (line 10)
	// survive; the two annotated uses are suppressed.
	if len(diags) != 2 || lines[0] != 3 || lines[1] != 10 {
		t.Fatalf("got diagnostics %v, want lines [3 10]", diags)
	}
}

func TestLoadRealPackage(t *testing.T) {
	pkgs, err := ana.Load("", "thedb/internal/storage")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "thedb/internal/storage" {
		t.Fatalf("loaded %v, want exactly thedb/internal/storage", pkgs)
	}
	p := pkgs[0]
	if p.Types.Scope().Lookup("Record") == nil {
		t.Fatal("storage.Record not in scope after type-check")
	}
	hasRecordFile := false
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "record.go") {
			hasRecordFile = true
		}
	}
	if !hasRecordFile {
		t.Fatal("record.go not among parsed files")
	}
}

func TestCallee(t *testing.T) {
	pkg := checkSource(t, `package fixture

type T struct{}

func (T) Method() {}

func helper() {}

func caller() {
	helper()
	var v T
	v.Method()
	f := helper
	f()
}
`)
	// Callee must resolve the direct call and the method call, and
	// return nil for the call through a function value.
	var got []string
	ast.Inspect(pkg.Files[0], func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := ana.Callee(pkg.Info, call); fn != nil {
				got = append(got, fn.Name())
			} else {
				got = append(got, "<dynamic>")
			}
		}
		return true
	})
	if want := []string{"helper", "Method", "<dynamic>"}; !slices.Equal(got, want) {
		t.Fatalf("resolved callees %v, want %v", got, want)
	}
}

func TestAuditSuppressions(t *testing.T) {
	pkg := checkSource(t, `package fixture

var a = 1 //thedb:nolint:foo justified because the test says so

//thedb:nolint:foo,bar shared justification
var b = 2

var c = 3 //thedb:nolint:foo

//thedb:nolint
var d = 4
`)
	audit := ana.AuditSuppressions([]*ana.Package{pkg})
	if audit.Counts["foo"] != 3 || audit.Counts["bar"] != 1 || audit.Counts["*"] != 1 {
		t.Fatalf("counts = %v", audit.Counts)
	}
	// Two comments carry no justification text: the bare :foo one and
	// the bare suppress-everything one.
	if len(audit.Unjustified) != 2 {
		t.Fatalf("unjustified = %v", audit.Unjustified)
	}
	for _, d := range audit.Unjustified {
		if d.Analyzer != "nolint-audit" {
			t.Errorf("unjustified diagnostic analyzer = %q", d.Analyzer)
		}
	}
	if audit.Unjustified[0].Pos.Line != 8 || audit.Unjustified[1].Pos.Line != 10 {
		t.Fatalf("unjustified at lines %d,%d, want 8,10",
			audit.Unjustified[0].Pos.Line, audit.Unjustified[1].Pos.Line)
	}
}
