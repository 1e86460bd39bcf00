module repro/cmd/mcrbench

go 1.22

require (
	repro v0.0.0
	repro/bench v0.0.0
)

replace (
	repro => ../../
	repro/bench => ../../bench
)
