module github.com/paper-repo-growth/conf_micro_daglisunbfg16/bench

go 1.22

require github.com/paper-repo-growth/conf_micro_daglisunbfg16 v0.0.0

replace github.com/paper-repo-growth/conf_micro_daglisunbfg16 => ../
