module just/benchmark

go 1.22

require just v0.0.0

replace just => ../
