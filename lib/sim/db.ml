include Shard.Store
