module securecache/bench

go 1.22

require securecache v0.0.0

replace securecache => ../
