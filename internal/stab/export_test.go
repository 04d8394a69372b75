package stab

// CompileCount reports how many times Compile has run in this process.
func CompileCount() int64 { return compiles.Load() }
