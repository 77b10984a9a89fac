module hybridgc/benchmark

go 1.22

require hybridgc v0.0.0

replace hybridgc => ../
