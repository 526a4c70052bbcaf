module risa/bench

go 1.22

require risa v0.0.0

replace risa => ../
