package thedb_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// designHeading matches DESIGN.md's chapter ("## 4. ...") and
	// section ("### 4.2 ...") headings.
	designHeading = regexp.MustCompile(`(?m)^(?:## (\d+)\.|### (\d+\.\d+)) `)
	// designRef matches "DESIGN.md §N[.M]" and its comma-continued list
	// ("DESIGN.md §N, §M.K"). Line breaks and comment markers may
	// separate the parts: a reference wraps across "//" and "#" lines.
	designRef = regexp.MustCompile(`DESIGN\.md(?:\s|//|#)*§\d+(?:\.\d+)?(?:,(?:\s|//|#)*§\d+(?:\.\d+)?)*`)
	sectionNo = regexp.MustCompile(`§(\d+(?:\.\d+)?)`)
)

// TestDesignReferencesResolve requires every "DESIGN.md §N" cited in
// the Go sources, README.md, EXPERIMENTS.md, PAPER.md, the Makefile and
// the CI workflows to name a chapter or section heading of DESIGN.md.
func TestDesignReferencesResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		headings[m[1]+m[2]] = true
	}

	files := []string{"README.md", "EXPERIMENTS.md", "PAPER.md", "Makefile"}
	workflows, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, workflows...)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	refs := 0
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range designRef.FindAllIndex(src, -1) {
			line := 1 + strings.Count(string(src[:loc[0]]), "\n")
			for _, m := range sectionNo.FindAllSubmatch(src[loc[0]:loc[1]], -1) {
				refs++
				if !headings[string(m[1])] {
					t.Errorf("%s:%d: DESIGN.md has no heading §%s", f, line, m[1])
				}
			}
		}
	}
	if refs == 0 {
		t.Fatal("no DESIGN.md § reference found: the scan is broken")
	}
}
