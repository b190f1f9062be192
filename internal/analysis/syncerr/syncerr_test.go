package syncerr_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"thedb/internal/analysis/syncerr"
)

// wantRE matches one backquoted pattern of a `want` comment.
var wantRE = regexp.MustCompile("`([^`]*)`")

// TestSyncerr checks a tree and compares its findings with the tree's
// `// want` (or `/* want */`) comments: each pattern must match one
// finding on the comment's line, and no finding may go unwanted. The
// fixture module testdata/src/thedb is named thedb and mirrors the
// packages the rule keys on; nolint, audit and callee are also checked
// alone. The real internal/checkpoint must have every finding covered.
func TestSyncerr(t *testing.T) {
	for _, tc := range []struct {
		name, dir, pattern string
		tally              int
	}{
		{"fixture", "testdata/src/thedb", "./...", 3},
		{"nolint", "testdata/src/thedb", "./internal/nolint", 2},
		{"audit", "testdata/src/thedb", "./internal/audit", 1},
		{"callee", "testdata/src/thedb", "./internal/callee", 0},
		{"checkpoint", "../../..", "./internal/checkpoint", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			findings, tally, err := syncerr.Check(tc.dir, tc.pattern)
			if err != nil {
				t.Fatal(err)
			}
			if tally != tc.tally {
				t.Errorf("suppressions in force = %d, want %d", tally, tc.tally)
			}
			wants := map[token.Position][]*regexp.Regexp{}
			root := filepath.Join(tc.dir, strings.TrimSuffix(tc.pattern, "..."))
			err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
					return err
				}
				abs, _ := filepath.Abs(path)
				fset := token.NewFileSet()
				f, err := parser.ParseFile(fset, abs, nil, parser.ParseComments)
				if err != nil {
					return err
				}
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						if rest, ok := strings.CutPrefix(strings.Trim(c.Text, "/* "), "want "); ok {
							k := token.Position{Filename: abs, Line: fset.Position(c.Pos()).Line}
							for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
								wants[k] = append(wants[k], regexp.MustCompile(m[1]))
							}
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range findings {
				k := token.Position{Filename: f.Pos.Filename, Line: f.Pos.Line}
				i := slices.IndexFunc(wants[k], func(re *regexp.Regexp) bool { return re.MatchString(f.Message) })
				if i < 0 {
					t.Errorf("unexpected finding %s", f)
					continue
				}
				wants[k] = slices.Delete(wants[k], i, i+1)
			}
			for k, res := range wants {
				for _, re := range res {
					t.Errorf("%s: no finding matches %q", k, re)
				}
			}
		})
	}
}
