package analysis

import (
	"strings"
)

// Lockordercheck builds the module's lock-acquisition partial order
// from the interprocedural lock facts (lockfacts.go): every
// held→acquired pair observed in a function body, directly or through
// callee Acquires facts, is an edge. Two shapes are findings:
//
//   - A self-edge on a *sharded* class (the kernel's 16 process-table
//     shards, the monitor's 8 audit rings): acquiring another instance
//     of a sharded class while one is held is a cross-shard
//     acquisition, which deadlocks against a concurrent holder going
//     the other way unless shard indices are globally ordered — a
//     convention this codebase deliberately does not rely on (shards
//     are locked one at a time; see DESIGN.md §12). A self-edge on an
//     unsharded class is a plain recursive-lock self-deadlock.
//
//   - A cycle among distinct classes: A held while acquiring B
//     somewhere, B held while acquiring A elsewhere (possibly through
//     longer paths and across packages). Each edge participating in a
//     cycle is reported at the position it was observed.
//
// Because the underlying call graph over-approximates interface
// dispatch by method name, an edge can be spurious; suppress with
// //overhaul:allow lockordercheck and a reason explaining why the
// dispatch cannot happen.
var Lockordercheck = &Analyzer{
	Name: "lockordercheck",
	Doc: "lock acquisitions must follow a consistent partial order: no " +
		"cross-shard nesting on sharded classes, no cycles between classes",
	Run: runLockordercheck,
}

func runLockordercheck(pass *Pass) {
	facts := pass.Facts()
	classes := facts.LockClasses()
	edges := facts.AllLockEdges()

	adj := make(map[string][]string)
	for _, e := range edges {
		adj[e.Held] = append(adj[e.Held], e.Acquired)
	}

	for _, e := range edges {
		pkg, pos, ok := facts.EdgeSite(e)
		if !ok || pkg == nil || pkg.Dir != pass.Pkg.Dir {
			// Each edge is reported once, in the package that records
			// it; this run only owns its own package's sites.
			continue
		}
		if e.Held == e.Acquired {
			if classes[e.Held] {
				pass.Reportf(pos,
					"cross-shard acquisition: %s is acquired while another instance of the same sharded class is held; shards are locked one at a time",
					shortClass(e.Held))
			} else {
				pass.Reportf(pos,
					"recursive acquisition: %s is acquired while already held (self-deadlock)",
					shortClass(e.Held))
			}
			continue
		}
		if cycle := findPath(adj, e.Acquired, e.Held); cycle != nil {
			pass.Reportf(pos,
				"lock-order cycle: %s is held while acquiring %s, but %s is also reachable (%s)",
				shortClass(e.Held), shortClass(e.Acquired), shortClass(e.Held),
				renderCycle(append([]string{e.Held}, cycle...)))
		}
	}
}

// findPath returns a path from → to along edges (excluding trivial
// zero-length paths), or nil.
func findPath(adj map[string][]string, from, to string) []string {
	seen := map[string]bool{}
	var dfs func(node string) []string
	dfs = func(node string) []string {
		if node == to {
			return []string{node}
		}
		if seen[node] {
			return nil
		}
		seen[node] = true
		for _, next := range adj[node] {
			if next == node {
				continue
			}
			if p := dfs(next); p != nil {
				return append([]string{node}, p...)
			}
		}
		return nil
	}
	return dfs(from)
}

// renderCycle joins class names with arrows.
func renderCycle(classes []string) string {
	short := make([]string, len(classes))
	for i, c := range classes {
		short[i] = shortClass(c)
	}
	return strings.Join(short, " -> ")
}

// shortClass strips the module-path prefix for readable messages:
// "overhaul/internal/kernel.procShard" -> "kernel.procShard".
func shortClass(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}
