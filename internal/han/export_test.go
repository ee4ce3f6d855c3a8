package han

// Test-only exports for the external golden test (package han_test, which
// may import autotune without an import cycle).
var (
	NumaSpec = numaSpec
	GPUSpec  = gpuSpec
	StepCfg  = stepCfg
)
