module sparseapsp/bench

go 1.22

require sparseapsp v0.0.0

replace sparseapsp => ../
