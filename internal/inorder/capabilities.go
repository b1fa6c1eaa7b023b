package inorder

// SampleCapable marks the in-order model as honoring Workload.Sample
// (implements core.SampleCapable; assertion marker, never called).
func (Config) SampleCapable() {}

// StackCapable marks the in-order model's results as carrying an
// exact CPI stack (implements core.StackCapable; assertion marker).
func (Config) StackCapable() {}
