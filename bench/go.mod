module kflushing/bench

go 1.22

require kflushing v0.0.0

replace kflushing => ../
