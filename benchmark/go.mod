module synapse/benchmark

go 1.24

require synapse v0.0.0

replace synapse => ../
