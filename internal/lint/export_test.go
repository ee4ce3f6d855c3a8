package lint

// FenceLifted reports whether the fence row named row is lifted in the
// non-test files of package pkgPath. Test-only export for the scope tests
// of package lint_test.
func FenceLifted(row, pkgPath string) bool {
	for _, r := range fenceRows {
		if r.name == row {
			return r.lifted != nil && r.lifted(pkgPath, false)
		}
	}
	panic("lint: no fence row " + row)
}
