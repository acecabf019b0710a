module cjoin/bench

go 1.24

require cjoin v0.0.0

replace cjoin => ../
