module elsm/benchmark

go 1.22

require elsm v0.0.0

replace elsm => ../
