module github.com/hanrepro/han/benchmark

go 1.22

require github.com/hanrepro/han v0.0.0

replace github.com/hanrepro/han => ../
