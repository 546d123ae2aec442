module heron

go 1.23
