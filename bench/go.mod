module plotters/bench

go 1.22

require plotters v0.0.0

replace plotters => ../
