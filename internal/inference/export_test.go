package inference

// WithParallelThreshold exposes the fan-out threshold option to the
// external test package.
var WithParallelThreshold = withParallelThreshold
