package analysis

// Suite returns the project's analyzer set, each wired to the packages
// whose invariants it enforces. cmd/cloudgraph-vet runs exactly this suite;
// the module-level regression test asserts it stays green on the tree.
func Suite() []*Analyzer {
	return []*Analyzer{
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

		// Module-wide analyzers: these run once over the whole module with
		// the shared index (CFGs, call graph).
		Busconsumer(), // consumer specs are built in core, runner, cmd and tests
		Borrowescape(),
		Lockorder(),
	}
}
