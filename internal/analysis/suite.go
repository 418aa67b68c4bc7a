package analysis

// Suite is the full repolint analyzer set, in the order diagnostics
// group most readably: structural rules first, formatting last.
func Suite() []*Analyzer {
	return []*Analyzer{
		NoFanout,
		MapOrder,
		NoClock,
		CtxFlow,
		FloatFmt,
		KindFixture,
		DeadExport,
	}
}
