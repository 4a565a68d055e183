package core

// ParallelCorpus is parallelCorpus for the external test package.
var ParallelCorpus = parallelCorpus
