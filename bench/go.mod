module vitri/bench

go 1.22

require vitri v0.0.0

replace vitri => ../
