module xmlviews/bench

go 1.21

require xmlviews v0.0.0

replace xmlviews => ../
