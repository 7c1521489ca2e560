package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// Durable enforces the crash-durability contract of PR 4/7 (DESIGN.md
// §5j): state that recovery depends on must reach disk through the
// internal/checkpoint envelope — CRC-32C framing, tmp+fsync+rename
// publication, append-only fsync'd journal records. Two rules:
//
//  1. A raw os.WriteFile / os.Create / os.CreateTemp / os.OpenFile /
//     os.Rename whose path carries a durable marker ("checkpoint",
//     ".ckpt", "journal", "manifest", "snapshot", ".opc" — matched
//     case-insensitively against string constants in the call's arguments
//     or in the initializers of path variables it uses) bypasses the
//     envelope: no checksum, no atomic publication, and recovery will
//     happily replay torn bytes. internal/checkpoint itself is exempt —
//     it *is* the envelope.
//
//  2. os.Rename without a positionally preceding (*os.File).Sync in the
//     same function publishes a file whose contents may not be durable
//     yet: after a crash the new name can point at empty or truncated
//     data, which is exactly the torn-write class the envelope's
//     stage → fsync → rename discipline exists to prevent.
//
//  3. A rename through the checkpoint filesystem seam ((checkpoint.FS)
//     .Rename) without a positionally following SyncDir *of the
//     destination's parent directory* in the same function leaves the
//     *rename itself* undurable: the file's bytes may be fsynced, but the
//     directory entry pointing the new name at them is not, and a crash
//     can roll the publication back. The SyncDir argument must be tied to
//     the rename's destination — filepath.Dir(dst), or a directory
//     expression the destination is built from, each chased one hop
//     through local initializers — so a SyncDir of an unrelated directory
//     cannot silence the rule. The check remains control-flow-insensitive:
//     a matching SyncDir anywhere after the rename satisfies it, even on a
//     branch the rename's path never reaches — position and argument
//     identity are a heuristic, not a dominator analysis. Rule 3 applies
//     everywhere — including inside internal/checkpoint, which is exempt
//     from rules 1–2 because it is the envelope but must still close its
//     own directory barriers. Functions themselves named Rename are exempt:
//     they are delegating seam implementations (fault injection, spies),
//     not publications.
var Durable = &Analyzer{
	Name: "durable",
	Doc:  "checkpoint/journal/manifest files must go through internal/checkpoint; no rename without a preceding fsync, no seam rename without a following dir sync",
	Run:  runDurable,
}

// durableMarkers are the path fragments that mark a file as
// recovery-critical, matched case-insensitively.
var durableMarkers = []string{"checkpoint", ".ckpt", "journal", "manifest", "snapshot", ".opc"}

// rawFileCalls are the os entry points rule 1 polices.
var rawFileCalls = map[string]bool{
	"os.WriteFile":  true,
	"os.Create":     true,
	"os.CreateTemp": true,
	"os.OpenFile":   true,
	"os.Rename":     true,
}

func runDurable(p *Package) []RawFinding {
	// The envelope implementation is the one place raw durable I/O belongs,
	// so rules 1–2 skip it; rule 3 polices the seam's own dir barriers
	// there too.
	envelope := p.Path == "pdnsim/internal/checkpoint"
	var out []RawFinding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !envelope {
				out = append(out, checkDurableFunc(p, fd)...)
			}
			out = append(out, checkSeamRenames(p, fd)...)
		}
	}
	return out
}

// Rule 3's anchors: the filesystem seam's rename, and the directory
// barrier that makes it durable.
const (
	fsRenameFull  = "(pdnsim/internal/checkpoint.FS).Rename"
	fsSyncDirFull = "(pdnsim/internal/checkpoint.FS).SyncDir"
)

// checkSeamRenames enforces rule 3: every (checkpoint.FS).Rename must be
// positionally followed by a SyncDir call, in the same function, whose
// directory argument is tied to the rename's destination.
func checkSeamRenames(p *Package, fd *ast.FuncDecl) []RawFinding {
	if fd.Name.Name == "Rename" {
		return nil // delegating seam implementations, not publications
	}
	var renames, syncDirs []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil {
			return true
		}
		switch fn.FullName() {
		case fsRenameFull:
			renames = append(renames, call)
		case fsSyncDirFull:
			syncDirs = append(syncDirs, call)
		}
		return true
	})
	if len(renames) == 0 {
		return nil
	}
	inits := collectInits(p, fd)
	var out []RawFinding
	for _, r := range renames {
		followed := false
		for _, s := range syncDirs {
			if s.Pos() > r.Pos() && syncDirCoversRename(p, inits, s, r) {
				followed = true
				break
			}
		}
		if !followed {
			out = append(out, RawFinding{Pos: r.Pos(), Message: "checkpoint FS.Rename without a following SyncDir of the destination's parent directory in the same function: the bytes may be fsynced but the rename is not — sync the renamed file's parent directory to make the publication survive a crash"})
		}
	}
	return out
}

// syncDirCoversRename reports whether the SyncDir call sd plausibly makes
// the rename r's publication durable: its directory argument resolves to
// the destination's parent. Two shapes are recognised, each chased one hop
// through local initializers — filepath.Dir(X) where X is (or appears in)
// the rename's destination expression, and a bare directory expression the
// destination is built from (filepath.Join(dir, name) synced via
// SyncDir(dir)). An argument matching neither shape does not count: a
// SyncDir of some unrelated directory must not silence the rule.
func syncDirCoversRename(p *Package, inits map[types.Object][]ast.Expr, sd, r *ast.CallExpr) bool {
	if len(r.Args) < 2 || len(sd.Args) < 1 {
		return true // malformed call; the type checker owns this
	}
	dest := r.Args[1]
	for _, dir := range expandExpr(p.Info, inits, sd.Args[0]) {
		if call, ok := dir.(*ast.CallExpr); ok {
			if fn := calleeFunc(p.Info, call); fn != nil && fn.FullName() == "path/filepath.Dir" && len(call.Args) == 1 {
				for _, x := range expandExpr(p.Info, inits, call.Args[0]) {
					if exprMentions(p.Info, inits, dest, x) {
						return true
					}
				}
				continue
			}
		}
		if exprMentions(p.Info, inits, dest, dir) {
			return true
		}
	}
	return false
}

// expandExpr returns e plus, when e is a local identifier, the initializer
// expressions it was assigned from — one hop, enough for the
// `dir := filepath.Dir(path)` spelling without risking cycles.
func expandExpr(info *types.Info, inits map[types.Object][]ast.Expr, e ast.Expr) []ast.Expr {
	out := []ast.Expr{e}
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			out = append(out, inits[obj]...)
		}
	}
	return out
}

// exprMentions reports whether the destination expression — or, one hop
// deep, an initializer it was assigned from — contains a subexpression
// textually identical to target. Textual identity (types.ExprString on
// both sides) compares j.path with j.path and dir with dir without needing
// resolvable objects for selector chains.
func exprMentions(info *types.Info, inits map[types.Object][]ast.Expr, dest, target ast.Expr) bool {
	want := types.ExprString(target)
	for _, d := range expandExpr(info, inits, dest) {
		found := false
		ast.Inspect(d, func(n ast.Node) bool {
			if found {
				return false
			}
			if e, ok := n.(ast.Expr); ok && types.ExprString(e) == want {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// collectInits builds the map from local variables to their initializer
// expressions within fd, so a marker constant or directory expression can
// be chased through `path := filepath.Join(dir, "x.journal")`.
func collectInits(p *Package, fd *ast.FuncDecl) map[types.Object][]ast.Expr {
	inits := map[types.Object][]ast.Expr{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(s.Rhs) {
					continue
				}
				if obj := p.Info.Defs[id]; obj != nil {
					inits[obj] = append(inits[obj], s.Rhs[i])
				} else if obj := p.Info.Uses[id]; obj != nil {
					inits[obj] = append(inits[obj], s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) {
					if obj := p.Info.Defs[name]; obj != nil {
						inits[obj] = append(inits[obj], s.Values[i])
					}
				}
			}
		}
		return true
	})
	return inits
}

func checkDurableFunc(p *Package, fd *ast.FuncDecl) []RawFinding {
	inits := collectInits(p, fd)

	var out []RawFinding
	var syncs, renames []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil {
			return true
		}
		switch full := fn.FullName(); {
		case full == "(*os.File).Sync":
			syncs = append(syncs, call)
		case rawFileCalls[full]:
			if full == "os.Rename" {
				renames = append(renames, call)
			}
			if marker, ok := durableMarkerInArgs(p.Info, call, inits); ok {
				out = append(out, RawFinding{Pos: call.Pos(), Message: fmt.Sprintf(
					"raw %s on a durable path (%q): checkpoint/journal/manifest state must go through the internal/checkpoint envelope (Save, Journal) for CRC framing and atomic publication", full, marker)})
			}
		}
		return true
	})
	for _, r := range renames {
		synced := false
		for _, s := range syncs {
			if s.Pos() < r.Pos() {
				synced = true
				break
			}
		}
		if !synced {
			out = append(out, RawFinding{Pos: r.Pos(), Message: "os.Rename without a preceding (*os.File).Sync in the same function can publish undurable bytes; stage, fsync, then rename (checkpoint.Save's discipline)"})
		}
	}
	return out
}

// durableMarkerInArgs scans the call's arguments — and, one hop deep, the
// initializers of variables those arguments use — for a string constant
// carrying a durable marker.
func durableMarkerInArgs(info *types.Info, call *ast.CallExpr, inits map[types.Object][]ast.Expr) (string, bool) {
	var consts []string
	for _, a := range call.Args {
		collectStringConsts(info, a, inits, 2, &consts)
	}
	for _, c := range consts {
		lc := strings.ToLower(c)
		for _, m := range durableMarkers {
			if strings.Contains(lc, m) {
				return c, true
			}
		}
	}
	return "", false
}

// collectStringConsts gathers string constants from an expression tree,
// following identifiers to their in-function initializers up to depth
// hops (enough for path := filepath.Join(dir, name) chains without
// risking cycles).
func collectStringConsts(info *types.Info, e ast.Expr, inits map[types.Object][]ast.Expr, depth int, out *[]string) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if tv, ok := info.Types[x]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				*out = append(*out, constant.StringVal(tv.Value))
				return false
			}
			if depth > 0 {
				if obj := info.Uses[x]; obj != nil {
					for _, init := range inits[obj] {
						collectStringConsts(info, init, inits, depth-1, out)
					}
				}
			}
		case *ast.BasicLit:
			if tv, ok := info.Types[x]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				*out = append(*out, constant.StringVal(tv.Value))
			}
		}
		return true
	})
}
