module blastlan/benchmark

go 1.24

require blastlan v0.0.0

replace blastlan => ../
