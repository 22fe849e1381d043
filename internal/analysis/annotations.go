package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// globalstate, concurrency and capflow communicate with the code
// through three comment annotations, each carrying a mandatory
// rationale:
//
//	// shared-ok: <why>     on a package-level var declaration — this
//	                        mutable global is audited shared state
//	                        (globalstate accepts it);
//	// epoch-barrier: <why> on a function declaration — this function is
//	                        part of the audited parallel-engine gate;
//	                        concurrency primitives are allowed inside.
//	// caphold: <why>; teardown=<Func>
//	                        on a store site that stashes a looked-up
//	                        kernel object into state outliving the
//	                        hypercall (capflow's lifetime rule). The
//	                        rationale explains why the kernel must hold
//	                        the reference; teardown names the function
//	                        whose destruction path releases it, and
//	                        capflow checks that function is a destruction
//	                        root (DestroyPD, or Space.Destroy/Revoke) or
//	                        reachable from one.
//
// The markers are substrings, so both `// shared-ok: reason` and a
// longer sentence containing the marker work; an annotation without a
// rationale is itself a finding (annotations are load-bearing audit
// records, not switches).
const (
	markSharedOK     = "shared-ok:"
	markEpochBarrier = "epoch-barrier:"
	markCapHold      = "caphold:"
)

// containsMarker matches the marker anywhere in a comment's text. No
// marker is a substring of another, so plain containment is exact.
func containsMarker(text, marker string) bool {
	return strings.Contains(text, marker)
}

// varSpecFor finds the ValueSpec and enclosing GenDecl declaring the
// package-level var v, or nils.
func varSpecFor(pkg *Package, v *types.Var) (*ast.GenDecl, *ast.ValueSpec) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if pkg.Info.Defs[name] == v {
						return gd, vs
					}
				}
			}
		}
	}
	return nil, nil
}

// varAnnotated reports whether v's declaration carries the marker, in
// the spec's doc comment, its trailing comment, or the var block's doc.
func varAnnotated(pkg *Package, v *types.Var, marker string) bool {
	gd, vs := varSpecFor(pkg, v)
	if vs == nil {
		return false
	}
	for _, cg := range []*ast.CommentGroup{vs.Doc, vs.Comment, gd.Doc} {
		if cg != nil && containsMarker(cg.Text(), marker) {
			return true
		}
	}
	return false
}

// funcAnnotated reports whether fd's doc comment carries the marker.
func funcAnnotated(fd *ast.FuncDecl, marker string) bool {
	return fd.Doc != nil && containsMarker(fd.Doc.Text(), marker)
}
