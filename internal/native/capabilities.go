package native

// SampleCapable marks the reference machine as honoring
// Workload.Sample — the inner 21264 model samples and the profiler
// measures the sampled windows (implements core.SampleCapable;
// assertion marker, never called).
func (Config) SampleCapable() {}

// StackCapable marks the reference machine's results as carrying a
// CPI stack — the profiler dilates the inner model's stack without
// breaking its exact sum (implements core.StackCapable).
func (Config) StackCapable() {}
