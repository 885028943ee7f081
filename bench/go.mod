module gallery/bench

go 1.23

require gallery v0.0.0

replace gallery => ../
