// The benchmark is a module of its own so that it builds from its own
// directory; the sliceaware/ prefix keeps the repository's internal
// packages importable, and the replace points at the checkout it sits in.
module sliceaware/bench

go 1.22

require sliceaware v0.0.0

replace sliceaware => ../
