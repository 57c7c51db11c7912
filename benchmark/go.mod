module sesemi/benchmark

go 1.22

require sesemi v0.0.0

replace sesemi => ../
