// Package difftest holds the whole-stack tests: frontend → bytecode →
// microJIT → Hydra, in plain, annotated and speculative modes, checked
// against an independent oracle or a pinned golden.
//
// The differential table runs progen programs (internal/progen is the one
// random-program source), plus hand-built programs for the shapes its
// grammar lacks, across machine shapes (CPU counts, tiny speculative
// buffers, fault plans) against the frontend's AST interpreter. The rest
// pin Table 3 cycles, doctor reports, a Perfetto trace and compiled images
// byte for byte, and drive the service, the fleet and crash-recovery
// checkpoints end to end.
package difftest
