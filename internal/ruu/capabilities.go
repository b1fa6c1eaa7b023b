package ruu

// SampleCapable marks the RUU model as honoring Workload.Sample
// (implements core.SampleCapable; assertion marker, never called).
func (Config) SampleCapable() {}

// StackCapable marks the RUU model's results as carrying an exact
// CPI stack (implements core.StackCapable; assertion marker).
func (Config) StackCapable() {}
