module thedb/benchmark

go 1.22

require thedb v0.0.0

replace thedb => ../
