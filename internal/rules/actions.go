package rules

import "gallery/internal/core"

// DeployAction returns the standard deployment callback: it promotes the
// matched instance's version to production in the registry, which flips
// the model's denormalized production pointer — the write the serving
// gateway's refresh loop watches. Wire it under the name "deploy" (and any
// team-specific aliases) with RegisterAction; the paper's §4.2 dynamic
// switching is exactly a metric-triggered rule firing this callback.
func DeployAction(reg *core.Registry) Action {
	return func(ctx *ActionContext) error {
		// ctx.Ctx threads the triggering event's trace and actor into the
		// promotion's audit event.
		return reg.PromoteInstanceCtx(ctx.Ctx, ctx.Instance.ID)
	}
}
