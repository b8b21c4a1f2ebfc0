// linkcheck verifies the repository's references to its markdown files.
// Every *.md under the given roots (skipping .git and vendor-like dirs) is
// scanned for [text](target) links, and each non-URL target must exist on
// disk relative to the file that links it — the documentation gate that
// keeps README/ARCHITECTURE/TUNING cross-references from rotting. Every
// *.go file's comments are scanned for mentions of a markdown file
// ("docs/TUNING.md", "FAULTS.md"), and each must name a file that exists
// under the roots, by its path or by the tail of its path.
//
//	go run ./cmd/linkcheck .
//
// Exit status 1 lists each broken link as file: target. External links
// (http, https, mailto) and pure in-page anchors (#section) are skipped;
// an anchor suffix on a relative target is stripped before the existence
// check.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRe matches inline markdown links, capturing the target. Images
// (![alt](target)) match too — their targets must exist just the same.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// mentionRe matches a markdown file named in running text, with any
// directories written before it. A bare "*.md" or ".md" names no file.
var mentionRe = regexp.MustCompile(`[\w./-]*\w\.md\b`)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	broken := 0
	var goFiles []string
	var mdFiles []string // every markdown file seen, as "/" + its slash-separated path
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); name == ".git" || name == "node_modules" || name == "vendor" {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(d.Name(), ".go") {
				goFiles = append(goFiles, path)
			}
			if !strings.HasSuffix(d.Name(), ".md") {
				return nil
			}
			mdFiles = append(mdFiles, "/"+filepath.ToSlash(path))
			// Retrieved reference corpora quote other repos' docs, whose
			// relative links point inside those repos — not checkable here.
			if n := d.Name(); n == "SNIPPETS.md" || n == "PAPERS.md" || n == "PAPER.md" {
				return nil
			}
			for _, target := range fileLinks(path) {
				if !checkLink(path, target) {
					fmt.Printf("%s: broken relative link %q\n", path, target)
					broken++
				}
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "linkcheck: %v\n", err)
			os.Exit(2)
		}
	}
	for _, path := range goFiles {
		mentions, err := commentMentions(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "linkcheck: %v\n", err)
			os.Exit(2)
		}
		for _, m := range mentions {
			if !resolves(m, mdFiles) {
				fmt.Printf("%s: comment cites %q, which is no markdown file here\n", path, m)
				broken++
			}
		}
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "linkcheck: %d broken reference(s)\n", broken)
		os.Exit(1)
	}
}

// commentMentions returns the markdown files one Go file's comments name.
func commentMentions(path string) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, group := range f.Comments {
		for _, c := range group.List {
			out = append(out, mentionRe.FindAllString(c.Text, -1)...)
		}
	}
	return out, nil
}

// resolves reports whether a mention is the path of one of mdFiles, or the
// tail of one: "TUNING.md" and "docs/TUNING.md" both name ./docs/TUNING.md.
func resolves(mention string, mdFiles []string) bool {
	tail := "/" + strings.TrimPrefix(mention, "./")
	for _, f := range mdFiles {
		if strings.HasSuffix(f, tail) {
			return true
		}
	}
	return false
}

// fileLinks extracts the checkable relative targets of one markdown file.
func fileLinks(path string) []string {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var out []string
	for _, m := range linkRe.FindAllStringSubmatch(string(b), -1) {
		target := m[1]
		switch {
		case strings.Contains(target, "://"), strings.HasPrefix(target, "mailto:"):
			continue // external
		case strings.HasPrefix(target, "#"):
			continue // in-page anchor
		}
		out = append(out, target)
	}
	return out
}

// checkLink reports whether a relative target (anchor stripped) exists
// relative to the linking file's directory.
func checkLink(path, target string) bool {
	if i := strings.IndexByte(target, '#'); i >= 0 {
		target = target[:i]
	}
	if target == "" {
		return true
	}
	_, err := os.Stat(filepath.Join(filepath.Dir(path), target))
	return err == nil
}
