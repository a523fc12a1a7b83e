module github.com/toltiers/toltiers/benchmark

go 1.24

require github.com/toltiers/toltiers v0.0.0

replace github.com/toltiers/toltiers => ../
