package docs

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"unicode"
)

// This file implements the checkable pieces of the documentation
// contract: markdown link and anchor extraction (GitHub slugification),
// DESIGN.md-style §N section cross-references, and the cmd/* flag
// surface used by the README drift check. The functions are pure —
// they take source text, not file paths — so the unit tests in
// check_test.go can feed them synthetic broken documents; the repo-wide
// tests in links_test.go walk the real tree and feed them every markdown
// file. No binary uses them, so they live in a test file.

// Link is one inline markdown link or image, split into its file target
// and optional #fragment.
type Link struct {
	Target   string // file part, "" for a pure-fragment link
	Fragment string // anchor part without the '#', "" if none
	Line     int    // 1-based line of the link's opening bracket
}

var inlineLinkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)]+)\)`)

// Links extracts every inline link from already code-stripped markdown.
func Links(src string) []Link {
	var links []Link
	for _, m := range inlineLinkRe.FindAllStringSubmatchIndex(src, -1) {
		target := strings.TrimSpace(src[m[2]:m[3]])
		// Drop an optional link title: [x](path "title").
		if i := strings.IndexAny(target, " \t"); i >= 0 {
			target = target[:i]
		}
		l := Link{Line: 1 + strings.Count(src[:m[0]], "\n")}
		if i := strings.IndexByte(target, '#'); i >= 0 {
			l.Target, l.Fragment = target[:i], target[i+1:]
		} else {
			l.Target = target
		}
		links = append(links, l)
	}
	return links
}

// StripCode blanks out fenced code blocks and inline code spans so
// example snippets containing bracket or § syntax do not produce false
// links or section references. Line structure is preserved for positions.
func StripCode(src string) string {
	var b strings.Builder
	inFence := false
	for _, line := range strings.SplitAfter(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			b.WriteString("\n")
			continue
		}
		if inFence {
			b.WriteString("\n")
			continue
		}
		for {
			i := strings.IndexByte(line, '`')
			if i < 0 {
				break
			}
			j := strings.IndexByte(line[i+1:], '`')
			if j < 0 {
				break
			}
			line = line[:i] + strings.Repeat(" ", j+2) + line[i+1+j+1:]
		}
		b.WriteString(line)
	}
	return b.String()
}

// Slugify converts a heading's text to its GitHub anchor: lowercase,
// markdown emphasis and trailing anchor-less punctuation removed, every
// run of characters other than letters, digits, '-' and '_' collapsed
// according to GitHub's rules (spaces become hyphens, everything else is
// dropped).
func Slugify(heading string) string {
	heading = strings.TrimSpace(heading)
	// Strip inline links to their text and inline code to its content.
	heading = regexp.MustCompile(`\[([^\]]*)\]\([^)]*\)`).ReplaceAllString(heading, "$1")
	heading = strings.NewReplacer("`", "", "*", "", "_", "_").Replace(heading)
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_',
			'a' <= r && r <= 'z',
			'0' <= r && r <= '9',
			r > 127 && (unicode.IsLetter(r) || unicode.IsDigit(r)):
			// GitHub keeps non-ASCII letters and digits but drops
			// punctuation (em dashes, §, ...).
			b.WriteRune(r)
		}
	}
	return b.String()
}

var headingRe = regexp.MustCompile(`(?m)^(#{1,6})\s+(.+?)\s*$`)

// Anchors returns the set of GitHub anchors defined by the headings of a
// markdown document (code blocks must already be stripped). Duplicate
// headings get "-1", "-2", ... suffixes, like GitHub's renderer.
func Anchors(src string) map[string]bool {
	anchors := make(map[string]bool)
	seen := make(map[string]int)
	for _, m := range headingRe.FindAllStringSubmatch(src, -1) {
		slug := Slugify(m[2])
		if n := seen[slug]; n > 0 {
			anchors[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			anchors[slug] = true
		}
		seen[slug]++
	}
	return anchors
}

// SectionNumbers returns the arabic section numbers a document defines
// with "## N." headings (the DESIGN.md / OBSERVABILITY.md convention).
func SectionNumbers(src string) map[int]bool {
	nums := make(map[int]bool)
	for _, m := range regexp.MustCompile(`(?m)^##\s+(\d+)\.`).FindAllStringSubmatch(src, -1) {
		n, _ := strconv.Atoi(m[1])
		nums[n] = true
	}
	return nums
}

// SectionRef is one §N cross-reference found in prose.
type SectionRef struct {
	File string // markdown basename the ref is qualified with; "" = the containing file's own namespace
	Num  int
	Line int
}

// sectionRefRe matches an optionally file-qualified §N reference:
// "DESIGN.md §13", "(../DESIGN.md) §8", or a bare "§10". Roman-numeral
// references (the paper's "§III-A2") contain no digits after § and are
// not matched.
var sectionRefRe = regexp.MustCompile(`(?:([A-Za-z0-9_.\-/]+\.md)\)?\s?)?§(\d+)`)

// listGapRe recognises the separators that extend a file qualifier over
// a comma list: "DESIGN.md §7, §12" or "§8, §10, and §14".
var listGapRe = regexp.MustCompile(`^[\s,;/]*(?:and[\s,;/]+)?$`)

// SectionRefs extracts every §N reference from code-stripped markdown.
// A reference carries the qualifying file's basename when one directly
// precedes it ("DESIGN.md §13"), with the qualifier inherited across
// short list separators ("DESIGN.md §7, §12" qualifies both). An
// unqualified reference has File == "" and resolves against the
// containing document's own section numbering.
func SectionRefs(src string) []SectionRef {
	var refs []SectionRef
	lastEnd := -1
	lastFile := ""
	for _, m := range sectionRefRe.FindAllStringSubmatchIndex(src, -1) {
		var file string
		if m[2] >= 0 {
			p := src[m[2]:m[3]]
			file = p[strings.LastIndexByte(p, '/')+1:]
		} else if lastEnd >= 0 && m[0]-lastEnd <= 8 && listGapRe.MatchString(src[lastEnd:m[0]]) {
			file = lastFile
		}
		n, _ := strconv.Atoi(src[m[4]:m[5]])
		refs = append(refs, SectionRef{
			File: file,
			Num:  n,
			Line: 1 + strings.Count(src[:m[0]], "\n"),
		})
		lastEnd, lastFile = m[1], file
	}
	return refs
}

// flagMethods are the flag-registration method names CommandFlags
// recognises on the flag package or a *flag.FlagSet.
var flagMethods = map[string]bool{
	"String": true, "Int": true, "Int64": true, "Bool": true,
	"Float64": true, "Uint": true, "Uint64": true, "Duration": true,
}

// CommandFlags parses one command's Go source text and returns the names
// of every flag it registers, in registration order. It recognises both
// package-level registrations (flag.String("name", ...)) and FlagSet
// methods (fs.String("name", ...)); the first argument must be a string
// literal.
func CommandFlags(filename, src string) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, 0)
	if err != nil {
		return nil, err
	}
	var flags []string
	seen := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !flagMethods[sel.Sel.Name] {
			return true
		}
		if _, ok := sel.X.(*ast.Ident); !ok {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil || name == "" || seen[name] {
			return true
		}
		seen[name] = true
		flags = append(flags, name)
		return true
	})
	return flags, nil
}

// FlagSection returns the body of the "### <cmd>" subsection of a
// markdown document (from its heading to the next heading of level 3 or
// shallower), or "" if the document has no such subsection.
func FlagSection(src, cmd string) string {
	re := regexp.MustCompile(`(?m)^###\s+` + regexp.QuoteMeta(cmd) + `\s*$`)
	loc := re.FindStringIndex(src)
	if loc == nil {
		return ""
	}
	rest := src[loc[1]:]
	if next := regexp.MustCompile(`(?m)^#{1,3}\s`).FindStringIndex(rest); next != nil {
		rest = rest[:next[0]]
	}
	return rest
}

// MentionsFlag reports whether a flag-reference section mentions the
// flag as "-name" (list items, backticked usage, and prose all count —
// the section text should be code-stripped only when backtick mentions
// must not count, which the drift check deliberately does not do).
func MentionsFlag(section, name string) bool {
	re := regexp.MustCompile(`(?m)(^|[^\w-])-` + regexp.QuoteMeta(name) + `($|[^\w-])`)
	return re.MatchString(section)
}
