// The allow escape hatch: a comment that begins, like a //go: directive
// with no space after the slashes,
//
//	//mcrlint:allow <check> [justification]
//
// on the flagged line, or on the line directly above it, suppresses that
// check's diagnostics for the line. Prose that merely mentions the
// directive (a comment beginning "// ") is not one. A directive naming a
// check that is not registered suppresses nothing and is itself a
// diagnostic: a typo, or a leftover from a deleted check, must not linger
// unnoticed.

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

const allowPrefix = "//mcrlint:allow"

// allowKey identifies one (file, line, check) suppression.
type allowKey struct {
	file  string
	line  int
	check string
}

// allowSet indexes every allow comment of a package.
type allowSet map[allowKey]bool

// collectAllows scans all comments of the package's files. One comment
// may chain several directives (a second "//mcrlint:allow <check> why"
// after the first one's justification); each contributes its own
// suppression.
func collectAllows(fset *token.FileSet, files []*ast.File) allowSet {
	set := allowSet{}
	eachAllow(fset, files, func(pos token.Position, check string) {
		set[allowKey{file: pos.Filename, line: pos.Line, check: check}] = true
	})
	return set
}

// eachAllow calls fn with the comment position and check name of every
// allow directive in files.
func eachAllow(fset *token.FileSet, files []*ast.File, fn func(pos token.Position, check string)) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, check := range allowChecks(c.Text) {
					fn(fset.Position(c.Pos()), check)
				}
			}
		}
	}
}

// unknownAllowCheck is the Check name of the diagnostic for an allow
// directive naming an unregistered check. It is not a registered check:
// it cannot be deselected with -checks or suppressed with an allow.
const unknownAllowCheck = "allow"

// unknownAllows returns one diagnostic per allow directive whose check
// is not registered, at the position of the comment.
func unknownAllows(fset *token.FileSet, files []*ast.File) []Diagnostic {
	var ds []Diagnostic
	eachAllow(fset, files, func(pos token.Position, check string) {
		nearest := NearestCheck(check)
		if nearest == check {
			return // registered
		}
		msg := fmt.Sprintf("//mcrlint:allow names unknown check %q", check)
		if nearest != "" {
			msg += fmt.Sprintf(" (did you mean %q?)", nearest)
		}
		ds = append(ds, Diagnostic{
			Check:   unknownAllowCheck,
			Pos:     pos,
			Message: msg + "; it suppresses nothing — fix the name or delete the directive",
		})
	})
	return ds
}

// allowChecks extracts every check named by allow directives in one
// comment's text; none unless the comment begins with a directive.
func allowChecks(text string) []string {
	if !strings.HasPrefix(text, allowPrefix) {
		return nil
	}
	var checks []string
	for {
		i := strings.Index(text, allowPrefix)
		if i < 0 {
			return checks
		}
		rest := text[i+len(allowPrefix):]
		fields := strings.Fields(rest)
		if len(fields) > 0 && !strings.HasPrefix(fields[0], "//") {
			checks = append(checks, strings.TrimSuffix(fields[0], ","))
		}
		text = rest
	}
}

// allows reports whether d is suppressed: an allow for its check on its
// line or the line above.
func (s allowSet) allows(d Diagnostic) bool {
	return s.at(d.Pos.Filename, d.Pos.Line, d.Check)
}

// at reports whether the (file, line) position carries an allow for
// check, on the line itself or the line directly above.
func (s allowSet) at(file string, line int, check string) bool {
	return s[allowKey{file, line, check}] ||
		s[allowKey{file, line - 1, check}]
}
