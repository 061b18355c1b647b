package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkedPkg parses and type-checks one in-memory file into a Package, just
// enough for the suppression machinery (comments for inline allows, Defs for
// function spans).
func checkedPkg(t *testing.T, filename, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Error: func(error) {}}
	tpkg, _ := conf.Check("p", fset, []*ast.File{f}, info)
	return &Package{PkgPath: "repro/fake/p", Fset: fset, Files: []*ast.File{f}, Types: tpkg, TypesInfo: info}
}

// TestParseAllowFileTrailingComment: an entry may carry a same-line trailing
// comment; everything from " #" on is dropped before the reason is recorded.
func TestParseAllowFileTrailingComment(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "deltavet.allow")
	content := "# header comment\n" +
		"errsync repro/internal/x Store.flush fsync error handled by caller # reviewed 2026-08\n" +
		"leakcheck repro/internal/y Buf.get plain reason words\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	allows, err := ParseAllowFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(allows) != 2 {
		t.Fatalf("got %d entries, want 2: %+v", len(allows), allows)
	}
	if allows[0].Reason != "fsync error handled by caller" {
		t.Errorf("trailing comment not stripped from reason: %q", allows[0].Reason)
	}
	if allows[1].Reason != "plain reason words" {
		t.Errorf("comment-free reason mangled: %q", allows[1].Reason)
	}
}

// TestParseAllowFileTrailingCommentEatsReason: stripping the trailing
// comment must not let a reason-less entry slip through.
func TestParseAllowFileTrailingCommentEatsReason(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "deltavet.allow")
	if err := os.WriteFile(path, []byte("errsync repro/internal/x Store.flush # no actual reason\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseAllowFile(path); err == nil {
		t.Fatal("entry whose only reason was a trailing comment parsed without error")
	}
}

// TestParseAllowFileCRLF: a CRLF allow file (edited on Windows, or checked
// out with autocrlf) must parse identically — no \r in any field.
func TestParseAllowFileCRLF(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "deltavet.allow")
	content := "# header\r\n" +
		"\r\n" +
		"errsync repro/internal/x Store.flush fsync error handled by caller\r\n" +
		"crashsafe repro/internal/y decode bounds checked at the boundary # note\r\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	allows, err := ParseAllowFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(allows) != 2 {
		t.Fatalf("got %d entries, want 2: %+v", len(allows), allows)
	}
	for _, al := range allows {
		for _, field := range []string{al.Analyzer, al.PkgPath, al.Func, al.Reason} {
			if strings.ContainsRune(field, '\r') {
				t.Errorf("carriage return survived parsing: %q", field)
			}
		}
	}
	if allows[1].Reason != "bounds checked at the boundary" {
		t.Errorf("CRLF + trailing comment mishandled: %q", allows[1].Reason)
	}
}

// TestSuppressInlineOnMultilineStatement: a trailing //deltavet:allow on the
// first line of a statement that spans several lines covers findings on that
// line and the next — and only those, and only for the named analyzer.
func TestSuppressInlineOnMultilineStatement(t *testing.T) {
	src := `package p

func Multi() int {
	x := compute( //deltavet:allow fakecheck spans a multi-line call
		1,
		2,
	)
	return x
}

func compute(a, b int) int { return a + b }
`
	pkg := checkedPkg(t, "multi.go", src)
	diags := []Diagnostic{
		{Analyzer: "fakecheck", Pos: token.Position{Filename: "multi.go", Line: 4}},
		{Analyzer: "fakecheck", Pos: token.Position{Filename: "multi.go", Line: 5}},
		{Analyzer: "fakecheck", Pos: token.Position{Filename: "multi.go", Line: 6}},
		{Analyzer: "othercheck", Pos: token.Position{Filename: "multi.go", Line: 4}},
	}
	kept := Suppress([]*Package{pkg}, diags, nil)
	if len(kept) != 2 {
		t.Fatalf("kept %d diagnostics, want 2: %+v", len(kept), kept)
	}
	// Line 6 is past the comment's reach; the other analyzer is untouched.
	if kept[0].Analyzer != "fakecheck" || kept[0].Pos.Line != 6 {
		t.Errorf("wrong first survivor: %+v", kept[0])
	}
	if kept[1].Analyzer != "othercheck" || kept[1].Pos.Line != 4 {
		t.Errorf("wrong second survivor: %+v", kept[1])
	}
}
