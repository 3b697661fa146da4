module mether

go 1.21

toolchain go1.23.0
