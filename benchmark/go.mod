module scsq/benchmark

go 1.23

require scsq v0.0.0

replace scsq => ../
