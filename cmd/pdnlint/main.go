// Command pdnlint is the project's static-analysis suite: ten analyzers
// that mechanically enforce the solver's and daemon's safety contracts
// (see DESIGN.md §5e and §5j):
//
//	errwrap  — errors built in internal/ must carry simerr class identity
//	ctxflow  — long-running exported loops accept and check a context;
//	           context.Background only in package main; no bare time.Sleep
//	floateq  — no ==/!= on floats except against constant zero
//	magictol — tolerance literals in comparisons must be named constants
//	paraloop — goroutine bodies index-partition or lock shared writes
//	lockhold — no blocking op (channel, file I/O, fsync, HTTP, sleep)
//	           while a sync mutex is held; lock order must be acyclic
//	goleak   — every go statement has a provable exit path; daemon
//	           packages account for their goroutines
//	durable  — checkpoint/journal/manifest files go through the
//	           internal/checkpoint envelope; no rename without fsync
//	hotalloc — no allocation, boxing, defer, or map access in //pdn:hot
//	           annotated kernel loops
//	deadapi  — exported internal/ identifiers and unexported functions
//	           are referenced by non-test code (uses count module-wide)
//
// Usage:
//
//	pdnlint [-json | -sarif] [packages]
//
// With no arguments (or "./...") the whole module containing the current
// directory is analyzed. Specific package directories can be named instead;
// the whole module is still loaded, so deadapi counts uses from all of it.
// Findings go to stdout, one per line (file:line:col: [analyzer] message),
// as a JSON array with -json, or as a SARIF 2.1.0 report with -sarif for
// code-scanning upload. A site may opt out with a trailing or preceding
//
//	//pdnlint:ignore <analyzer> <reason>
//
// comment; the reason is mandatory (an undocumented ignore is itself a
// finding) and a directive in a function's doc comment covers the whole
// function.
//
// Exit status: 0 clean, 1 findings, 2 load or internal failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pdnsim/cmd/pdnlint/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver: parse flags, load, analyze, encode. The
// return value is the process exit status (0 clean, 1 findings, 2 usage /
// load / internal failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdnlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (file, line, col, analyzer, message)")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 report (code-scanning upload format)")
	verbose := fs.Bool("v", false, "list analyzed packages on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "pdnlint: -json and -sarif are mutually exclusive")
		return 2
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "pdnlint:", err)
		return 2
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(stderr, "pdnlint:", err)
		return 2
	}
	if sel := selectPackages(pkgs, fs.Args(), loader.ModuleRoot); sel != nil {
		pkgs = sel
	}
	if *verbose {
		for _, p := range pkgs {
			fmt.Fprintln(stderr, "pdnlint: analyzing", p.Path)
		}
	}
	findings := lint.Run(pkgs, lint.Analyzers, loader.ModuleRoot)
	switch {
	case *sarifOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(lint.SARIFReport(findings, lint.Analyzers)); err != nil {
			fmt.Fprintln(stderr, "pdnlint:", err)
			return 2
		}
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "pdnlint:", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut && !*sarifOut {
			fmt.Fprintf(stderr, "pdnlint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// selectPackages filters the loaded packages by the command-line patterns:
// "./..." (or nothing) keeps everything, "dir/..." keeps the subtree, a
// plain directory keeps that package. Returns nil for "keep everything".
func selectPackages(pkgs []*lint.Package, args []string, root string) []*lint.Package {
	if len(args) == 0 {
		return nil
	}
	var keep []*lint.Package
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			return nil
		}
		subtree := strings.HasSuffix(arg, "/...")
		arg = strings.TrimSuffix(arg, "/...")
		abs, err := filepath.Abs(arg)
		if err != nil {
			continue
		}
		for _, p := range pkgs {
			pdir, err := filepath.Abs(p.Dir)
			if err != nil {
				continue
			}
			if pdir == abs || (subtree && strings.HasPrefix(pdir+string(filepath.Separator), abs+string(filepath.Separator))) {
				keep = append(keep, p)
			}
		}
	}
	return keep
}
