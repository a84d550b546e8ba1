package analysis

// Suite returns the project's analyzer set, each wired to the packages
// whose invariants it enforces. cmd/cloudgraph-vet runs exactly this suite;
// the module-level regression test asserts it stays green on the tree.
func Suite() []*Analyzer {
	return []*Analyzer{
		Lockscope(), // every package: locks are everywhere on the hot path
		Detclock(
			"cloudgraph/internal/cluster",
			"cloudgraph/internal/nicsim",
			"cloudgraph/internal/counterfactual",
		),
		Wirestruct(), // marker-driven, module wide
		Errdrop("cloudgraph/internal"),
		Floatcmp(
			"cloudgraph/internal/matrix",
			"cloudgraph/internal/summarize",
		),
		Busconsumer(), // module wide: consumer specs are built in core, runner, cmd and tests

		// Module-wide analyzers: these run once over the whole module with
		// the shared index (CFGs, call graph).
		Borrowescape(),
		Lockorder(),
	}
}
