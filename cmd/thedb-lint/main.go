// Command thedb-lint runs THEDB's custom analyzer, syncerr
// (internal/analysis/syncerr). By default it also runs the stock
// `go vet` passes over the same patterns — copylocks among them, which
// flags every copy of a struct holding a typed atomic — so `make lint`
// is one gate.
//
// Usage:
//
//	thedb-lint [-novet] [packages...]
//
// With no packages, ./... is linted. The exit status is non-zero when
// any analyzer or vet reports a finding. Individual findings can be
// suppressed with a trailing or preceding comment:
//
//	//thedb:nolint:<analyzer>[,<analyzer>] <reason>
//
// Every run prints a suppression tally (how many //thedb:nolint
// comments name each analyzer), and a nolint comment whose analyzer
// list is not followed by a justification is itself a failing
// finding — an unexplained suppression is indistinguishable from a
// silenced bug.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"

	"thedb/internal/analysis/ana"
	"thedb/internal/analysis/syncerr"
)

func main() {
	novet := flag.Bool("novet", false, "skip the stock `go vet` passes")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: thedb-lint [-novet] [packages...]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false

	pkgs, err := ana.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thedb-lint:", err)
		os.Exit(2)
	}
	diags, err := ana.Run(pkgs, []*ana.Analyzer{syncerr.Analyzer})
	if err != nil {
		fmt.Fprintln(os.Stderr, "thedb-lint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
		failed = true
	}

	audit := ana.AuditSuppressions(pkgs)
	if len(audit.Counts) > 0 {
		names := make([]string, 0, len(audit.Counts))
		for n := range audit.Counts {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "thedb-lint: suppressions in force:")
		for _, n := range names {
			fmt.Fprintf(os.Stderr, " %s=%d", n, audit.Counts[n])
		}
		fmt.Fprintln(os.Stderr)
	}
	for _, d := range audit.Unjustified {
		fmt.Println(d)
		failed = true
	}

	if !*novet {
		vet := exec.Command("go", append([]string{"vet"}, patterns...)...)
		vet.Stdout = os.Stdout
		vet.Stderr = os.Stderr
		if err := vet.Run(); err != nil {
			if _, ok := err.(*exec.ExitError); !ok {
				fmt.Fprintln(os.Stderr, "thedb-lint: running go vet:", err)
				os.Exit(2)
			}
			failed = true
		}
	}

	if failed {
		os.Exit(1)
	}
}
