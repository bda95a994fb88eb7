package vetcheck

import (
	"sort"
	"strings"
)

// Waiver is one well-formed //popcornvet:allow directive in the tree:
// where it is, which analyzer it silences, and the written justification.
// cmd/popcornvet -allowlist dumps these as JSON so CI can archive the full
// set of accepted exceptions next to the findings artifact — the waiver
// population is reviewable history, not scattered comments.
type Waiver struct {
	File          string `json:"file"`
	Line          int    `json:"line"`
	Analyzer      string `json:"analyzer"`
	Justification string `json:"justification"`
}

// Allowlist collects every well-formed allow-directive in the tree, sorted
// by file, line, analyzer. Malformed directives are excluded: they are
// already findings in their own right (the "directive" meta-rule), not
// waivers.
func Allowlist(t *Tree) []Waiver {
	known := knownRules()
	var out []Waiver
	for _, pkg := range t.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.AST.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, directivePrefix) {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
					fields := strings.SplitN(rest, " ", 2)
					if len(fields) < 2 || !known[fields[0]] {
						continue
					}
					pos := t.Fset.Position(c.Pos())
					out = append(out, Waiver{
						File:          strings.TrimPrefix(pos.Filename, "./"),
						Line:          pos.Line,
						Analyzer:      fields[0],
						Justification: strings.TrimSpace(fields[1]),
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
