module kaleidoscope/bench

go 1.22

require kaleidoscope v0.0.0

replace kaleidoscope => ../
