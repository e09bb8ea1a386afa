package lint

// Test hooks.

// Run applies the analyzers to every package and returns the findings
// sorted by file, line, column, then rule.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunConcurrent(pkgs, analyzers, 1)
	return diags
}
