module mether/bench

go 1.21

require mether v0.0.0

replace mether => ../
