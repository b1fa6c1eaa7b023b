package interval

// StackCapable marks the analytical estimator's results as carrying a
// CPI stack — the per-class penalty terms sum exactly to the cycle
// estimate (implements core.StackCapable; assertion marker, never
// called).
//
// The estimator deliberately does NOT implement core.SampleCapable or
// core.CheckpointRecorder: it is already a single functional pass, so
// sampling would save nothing, and it keeps no timed state worth
// checkpointing. The registry derives its capability flags from these
// absent assertions.
func (Config) StackCapable() {}
